import hashlib
import json

import pytest

from qbgraph.cli import main
from qbgraph.root_system import RootSystem
from qbgraph.verify import SUITES


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_qbg_dot_a2(capsys):
    code, out = run(capsys, "qbg", "--type", "A", "--rank", "2", "--format", "dot")
    assert code == 0
    assert out.count(" -> ") == 15
    assert out.count("style=dashed") == 7
    assert out.count('"321"') > 0


def test_pqbg_alias_json(capsys):
    code, out = run(
        capsys, "pqbg", "--type", "A", "--rank", "3", "--parabolic", "1,3",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["vertices"]) == 6
    assert len(doc["edges"]) == 8
    assert sum(1 for e in doc["edges"] if e["kind"] == "quantum") == 2
    perms = {v["permutation"] for v in doc["vertices"]}
    assert perms == {"1234", "1324", "1423", "2314", "2413", "3412"}


def test_qbg_cycle(capsys):
    code, out = run(
        capsys, "qbg", "--type", "A", "--rank", "2", "--parabolic", "1"
    )
    assert code == 0
    assert "vertices=3 edges=3 quantum=1" in out


def test_determinism_across_runs(capsys):
    args = ("qbg", "--type", "A", "--rank", "2", "--format", "dot")
    _, first = run(capsys, *args)
    _, second = run(capsys, *args)
    assert first.encode() == second.encode()


def test_lift_walk_reproduces_ladder(capsys):
    code, out = run(
        capsys, "lift", "--type", "A", "--rank", "2", "--parabolic", "1",
        "--mu=-2,-4", "--start", "", "--walk", "0,1;1,1;0,1",
    )
    assert code == 0
    assert "6d-a2" in out and "6d-a1-a2" in out and "5d-a2" in out
    assert "213 t(-2,-3)" in out


def test_lift_walk_beyond_the_first_step(capsys):
    # the second step's mu is shallower than the lift depth; the walk still lifts
    code, out = run(
        capsys, "lift", "--type", "A", "--rank", "3", "--parabolic", "1",
        "--start", "3", "--walk", "0,0,1;0,1,0",
    )
    assert code == 0
    assert out.count(" > ") == 2


def test_lift_bad_start_exits_two(capsys):
    code = main(["lift", "--type", "A", "--rank", "3", "--parabolic", "1",
                 "--start", "9", "--walk", "0,0,1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


def test_lift_start_reports_a_bad_word_as_tilted_does(capsys):
    lift = main(["lift", "--type", "A", "--rank", "2", "--parabolic", "1",
                 "--start", "0", "--walk", "0,1"])
    lift_err = capsys.readouterr().err
    tilted = main(["tilted", "--type", "A", "--rank", "2", "--u", "0"])
    assert lift == tilted == 2
    assert lift_err == capsys.readouterr().err
    assert lift_err == "error: bad word '0': generator index 0 out of range\n"



@pytest.mark.parametrize("argv,vertex", [
    (["--type", "A", "--rank", "3", "--parabolic", "1", "--walk", "0,0,1;1,0,0"], "1243"),
    (["--type", "G", "--rank", "2", "--parabolic", "1", "--walk", "0,1;1,0"], "r2"),
])
def test_lift_walk_off_the_graph_names_the_vertex(capsys, argv, vertex):
    # the second label is in Phi_J, so no edge carries it out of the
    # first step's target, which the error names as W.describe does
    code = main(["lift", *argv, "--start", ""])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert lines[0].endswith(f"out of vertex {vertex}")

#: sha256 of `lift --type A --rank 2 --parabolic 1` per format
LIFT_TABLE_SHA256 = {
    "text": "0cc3783ef66c93980097d57afdf55ab90d146e4e6f3ba42c9caf99e33a249505",
    "dot": "4825e87a72e8a2844efab8c921303703d2eb29acaf7e57e849ca630df75fe6d8",
}


@pytest.mark.parametrize("fmt", sorted(LIFT_TABLE_SHA256))
def test_lift_table_output_is_pinned(capsys, fmt):
    code, out = run(
        capsys, "lift", "--type", "A", "--rank", "2", "--parabolic", "1",
        "--format", fmt,
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == LIFT_TABLE_SHA256[fmt]


def test_lift_empty_start_without_walk_prints_the_table(capsys):
    argv = ("lift", "--type", "A", "--rank", "2", "--parabolic", "1")
    assert run(capsys, *argv, "--start=") == run(capsys, *argv)


def test_lift_table(capsys):
    code, out = run(
        capsys, "lift", "--type", "A", "--rank", "2", "--parabolic", "1",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["covers"]) == 3


def test_poset_slice(capsys):
    code, out = run(
        capsys, "poset", "--type", "A", "--rank", "2", "--lambda", "2,1",
        "--window", "1", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["vertices"]) == 18


#: sha256 of `poset --type A --rank 2 --lambda 2,1 --window 1` (text)
SLICE_TEXT_SHA256 = "cadd3b0f88e9d9ef4d68ba3437b7c49603e69605abbc26a7514d661fb73185e3"


def test_poset_text_slice_is_pinned(capsys):
    code, out = run(
        capsys, "poset", "--type", "A", "--rank", "2", "--lambda", "2,1",
        "--window", "1",
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SLICE_TEXT_SHA256


def test_poset_dot_red_layer(capsys):
    code, out = run(
        capsys, "poset", "--type", "A", "--rank", "2", "--lambda", "2,1",
        "--window", "1", "--format", "dot",
    )
    assert code == 0
    assert out.count("color=red") >= 6 + 8  # six level nodes and eight covers


def test_poset_rejects_zero_weight(capsys):
    code, _ = run(capsys, "poset", "--type", "A", "--rank", "2", "--lambda", "0,0")
    assert code == 2


def test_poset_rejects_small_window(capsys):
    code, _ = run(
        capsys, "poset", "--type", "A", "--rank", "2", "--lambda", "2,1",
        "--window", "0",
    )
    assert code == 2


def test_bad_flags_exit_two(capsys):
    assert main(["qbg", "--type", "Z", "--rank", "2"]) == 2
    assert main(["qbg", "--type", "A", "--rank", "0"]) == 2
    assert main(["qbg", "--type", "A", "--rank", "2", "--parabolic", "5"]) == 2
    assert main(["verify", "--suite", "no-such-suite"]) == 2


def test_tilted_and_qlen(capsys):
    code, out = run(
        capsys, "tilted", "--type", "A", "--rank", "2", "--parabolic", "1",
        "--u", "1,2,1", "--z", "",
    )
    assert code == 0
    assert "minimum : 123" in out and "distance: 1" in out
    code, out = run(capsys, "qlen", "--type", "A", "--rank", "2", "--u", "1,2,1")
    assert code == 0
    assert out.strip() == "1"


def test_verify_single_suite(capsys):
    code, out = run(
        capsys, "verify", "--suite", "reference-graphs,example-chain", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert [s["suite"] for s in doc["suites"]] == ["reference-graphs", "example-chain"]


def test_verify_types_override(capsys):
    code, out = run(
        capsys, "verify", "--suite", "quantum-roots", "--types", "A1..A3,G2"
    )
    assert code == 0
    assert "A1:" in out and "A3:" in out and "G2:" in out


def test_verify_deterministic_across_runs(capsys):
    args = ("verify", "--suite", "reference-graphs,determinism,example-chain")
    _, one = run(capsys, *args)
    _, two = run(capsys, *args)
    assert one.encode() == two.encode()


def test_poset_parabolic_consistency(capsys):
    # the parabolic set, when given, must be the zero set of lambda
    code, _ = run(
        capsys, "poset", "--type", "A", "--rank", "2", "--lambda", "2,1",
        "--parabolic", "1", "--window", "1",
    )
    assert code == 2
    code, _ = run(
        capsys, "poset", "--type", "A", "--rank", "2", "--lambda", "2,0",
        "--parabolic", "2", "--window", "2",
    )
    assert code == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--types", "A"],
        ["verify", "--types", "Z3"],
        ["verify", "--types", "A3..A1"],
        ["verify", "--suite", "qbg-structure", "--types", "E7"],
        ["verify", "--suite", "level-zero", "--types", "A2"],
        ["verify", "--suite", "path-weights", "--types", "A2"],
        ["verify", "--suite", "quantum-roots,determinism", "--types", "A2"],
        ["verify", "--suite", "reference-graphs", "--types", "A2"],
        ["lift", "--type", "A", "--rank", "2", "--parabolic", "1", "--start", "3"],
        ["lift", "--type", "A", "--rank", "2", "--parabolic", "1", "--start", "1"],
        ["tilted", "--type", "A", "--rank", "2", "--u", "1,9"],
        ["qlen", "--type", "A", "--rank", "2", "--u", "3"],
        ["qbg", "--type", "A", "--rank", "2", "--out", "{missing}/x.json"],
        ["poset", "--type", "A", "--rank", "2", "--lambda", "1,1", "--parabolic", "9"],
        ["poset", "--type", "A", "--rank", "2", "--lambda=-1,0"],
        ["poset", "--type", "A", "--rank", "2", "--lambda=-1,-1"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_bad_input_exits_two_with_one_line(capsys, tmp_path, argv):
    argv = [a.replace("{missing}", str(tmp_path / "missing")) for a in argv]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["qbg", "--type", "A", "--rank", "80"],
        ["verify", "--suite", "qbg-structure", "--types", "A80"],
    ],
    ids=" ".join,
)
def test_type_past_the_cap_exits_two_before_building_roots(monkeypatch, capsys, argv):
    # the cap is checked on |W| alone: build_root_system raises if it is
    # reached, since no root system may be built for A80
    def refuse(*_args):
        raise AssertionError("a root system was built past the enumeration cap")

    monkeypatch.setattr(RootSystem, "__init__", refuse)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: |W| = ")
    assert "exceeds the enumeration cap" in captured.err
    assert captured.err.count("\n") == 1
    assert captured.out == ""


def test_root_system_past_the_root_cap_exits_two(monkeypatch, capsys):
    # quantum-roots builds only the root system, so no |W| cap applies
    def refuse(*_args):
        raise AssertionError("a root system was built past the root cap")

    monkeypatch.setattr(RootSystem, "__init__", refuse)
    code = main(["verify", "--suite", "quantum-roots", "--types", "A30"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: |Phi+| = 465 exceeds the root cap 300\n"
    assert captured.out == ""


def test_verify_all_with_types_runs_every_suite(monkeypatch, capsys):
    # --suite all keeps --types for the suites that take a type list; the
    # suites with their own case lists run those
    seen = {}

    def fake_run_suites(names, types=None):
        seen.update(names=list(names), types=types)
        return []

    monkeypatch.setattr("qbgraph.verify.run_suites", fake_run_suites)
    assert main(["verify", "--suite", "all", "--types", "A2,G2"]) == 0
    assert seen["names"] == list(SUITES)
    assert seen["types"] == [("A", 2), ("G", 2)]
