"""The slice writers, which build each coset's text once and each delta
part once, write what per-element writers built from ``weight_text``,
``covers`` and the stdlib ``json`` module write."""

import json

import pytest

from qbgraph import render
from qbgraph.level_zero import LevelZeroPoset, LevelZeroWeight
from qbgraph.weyl import build_weyl_group

ORBITS = [("A", (2, 1), 1), ("A", (2, 2), 3), ("A", (1, 0, 2), 4), ("B", (0, 1), 2),
          ("G", (2, 0), 5), ("C", (0, 2, 2), 3), ("D", (1, 0, 0, 1), 2)]


@pytest.fixture(params=ORBITS, ids=lambda o: f"{o[0]}{len(o[1])}-{o[1]}-w{o[2]}")
def orbit(request):
    cartan_type, lam, window = request.param
    return LevelZeroPoset(build_weyl_group(cartan_type, len(lam)), lam), window


def text_by_element(poset, window):
    rs = poset.rs
    lines = [f"# slice {rs.cartan_type}{rs.rank} lambda={list(poset.lam)} window={window}\n"]
    for mu in poset.slice_elements(window):
        covers = ", ".join(
            f"{render.weight_text(poset, c.upper)} [{render.affine_root_text(c.label)}]"
            for c in poset.covers(mu)
        )
        lines.append(f"{render.weight_text(poset, mu)} < {covers}\n")
    return "".join(lines)


def dot_by_element(poset, window):
    elems = poset.slice_elements(window)
    lines = ["digraph slice {\n"]
    for mu in elems:
        attrs = " [color=red, fontcolor=red]" if mu.n == 0 else ""
        lines.append(f'  "{render.weight_text(poset, mu)}"{attrs};\n')
    for mu in elems:
        for cov in poset.covers(mu):
            if cov.upper not in elems:
                continue
            attrs = [f'label="{render.affine_root_text(cov.label)}"']
            if mu.n == 0 and cov.upper.n == 0:
                attrs.append("color=red")
            lines.append(f'  "{render.weight_text(poset, mu)}" -> '
                         f'"{render.weight_text(poset, cov.upper)}" [{", ".join(attrs)}];\n')
    lines.append("}\n")
    return "".join(lines)


def json_by_element(poset, window):
    elems = poset.slice_elements(window)
    pos = {mu: i for i, mu in enumerate(elems)}
    doc = {
        "schema": render.SCHEMA_SLICE,
        "cartan_type": poset.rs.cartan_type,
        "rank": poset.rs.rank,
        "lambda": list(poset.lam),
        "window": window,
        "vertices": [{"id": i, "coset_word": list(poset.W.element(mu.w).word), "n": mu.n,
                      "text": render.weight_text(poset, mu)} for i, mu in enumerate(elems)],
        "covers": [{"src": pos[mu], "dst": pos[c.upper], "kind": c.kind,
                    "label": {"alpha": list(c.label.alpha), "delta": c.label.k}}
                   for mu in elems for c in poset.covers(mu) if c.upper in pos],
    }
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def test_slice_text_matches_the_per_element_text(orbit):
    poset, window = orbit
    assert "".join(render.slice_text_chunks(poset, window)) == text_by_element(poset, window)


def test_slice_dot_matches_the_per_element_dot(orbit):
    poset, window = orbit
    assert render.slice_to_dot(poset, window) == dot_by_element(poset, window)


def test_slice_json_matches_the_per_element_json(orbit):
    poset, window = orbit
    assert render.slice_to_json(poset, window) == json_by_element(poset, window)


@pytest.mark.parametrize(
    "cartan_type,lam,texts",
    [
        ("A", (2, 1), {(0, 0): "-3L0+2L1+L2", (1, -1): "-L0-2L1+3L2-d",
                       (5, 2): "3L0-L1-2L2+2d", (2, 1): "-2L0+3L1-L2+d"}),
        ("B", (0, 1), {(0, 0): "(e, 0)", (2, -1): "(r2, -1)", (6, 2): "(r2r1r2, 2)",
                       (3, 1): "(r1r2, 1)"}),
        ("A", (1, 0, 2), {(0, 0): "-3L0+L1+2L3", (1, -1): "-2L0-L1+L2+2L3-d",
                          (21, 2): "3L0-2L1-L3+2d", (3, 1): "-L0+L1+2L2-2L3+d"}),
    ],
)
def test_weight_text_is_pinned(cartan_type, lam, texts):
    poset = LevelZeroPoset(build_weyl_group(cartan_type, len(lam)), lam)
    got = {(w, n): render.weight_text(poset, LevelZeroWeight(w, n)) for w, n in texts}
    assert got == texts
