"""Every name a module of the package imports is used in that module, every
module-level private name is referenced by some module, ``WeylElement``
stays at the public boundary of the engine modules, and no module imports
``fractions`` or ``dataclasses``.

A stdlib ``ast`` scan; ``__init__.py`` re-exports its imports and is exempt.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "qbgraph"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _annotation_names(node):
    """Names inside a string annotation such as ``"WeylGroup"``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            tree = ast.parse(node.value, mode="eval")
        except SyntaxError:
            return set()
        return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return set()


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg):
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            used |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_the_scan_sees_an_unused_import():
    source = "from os import path, sep\nimport sys\n\ndef f(x: 'sep') -> None:\n    return path\n"
    assert unused_imports(source) == ["sys (line 2)"]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []


def orphaned_privates(sources: dict[str, str]) -> list[str]:
    """The module-level ``_private`` functions, classes and constants of the
    given modules (file name -> source) that no module reads as a name, an
    attribute, an import or inside a string annotation."""
    defined = {}
    used = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            targets = []
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, ast.Assign):
                targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                targets = [node.target.id]
            for name in targets:
                if name.startswith("_") and not name.startswith("__"):
                    defined[name] = f"{module}: {name} (line {node.lineno})"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used |= {alias.name for alias in node.names}
            elif isinstance(node, ast.arg):
                used |= _annotation_names(node.annotation)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                used |= _annotation_names(node.returns)
            elif isinstance(node, ast.AnnAssign):
                used |= _annotation_names(node.annotation)
    return sorted(where for name, where in defined.items() if name not in used)


def test_the_scan_sees_an_orphaned_private():
    sources = {
        "a.py": (
            "_LIMIT = 3\n_table: dict = {}\n\nclass _Box:\n    pass\n\n"
            "def _used(x):\n    return x\n\ndef _orphan():\n    return _used(1)\n\n"
            "def public() -> '_Box':\n    _table[0] = 1\n    return _LIMIT\n"
        ),
        "b.py": "from .a import _used\n\n_GONE = 1\n_GONE = 2\n__all__ = []\n",
    }
    assert orphaned_privates(sources) == ["a.py: _orphan (line 10)", "b.py: _GONE (line 4)"]


def test_no_orphaned_privates():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert orphaned_privates(sources) == []


def annotation_owners(source: str, name: str) -> set[str]:
    """The functions and classes holding an annotation that names ``name``:
    a parameter or return annotation, or an annotated assignment."""
    owners = set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owner = node.name
        for note in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if note is not None and any(
                (isinstance(n, ast.Name) and n.id == name) or name in _annotation_names(n)
                for n in ast.walk(note)
            ):
                owners.add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), None)
    return owners


def test_the_scan_sees_an_annotation_owner():
    source = (
        "class D:\n    z: 'WeylElement'\n\n"
        "def f(x: int) -> tuple[WeylElement, int]:\n    pass\n\n"
        "def g(x: WeylElement | None):\n    pass\n\n"
        "def h(x: int, y: 'WeylGroup') -> int:\n    z: int = 0\n    return z\n"
    )
    assert annotation_owners(source, "WeylElement") == {"D", "f", "g"}


#: per engine module, the functions allowed to take or return a WeylElement;
#: everything else in them works on element ids
BOUNDARY = {
    "qbg.py": set(),
    "level_zero.py": set(),
    "affine.py": {"from_finite", "superantidominant_mu"},
    "tilted.py": {"coset_min"},
}


@pytest.mark.parametrize("name", sorted(BOUNDARY))
def test_weyl_element_only_at_the_boundary(name):
    source = (SRC / name).read_text(encoding="utf-8")
    assert annotation_owners(source, "WeylElement") == BOUNDARY[name]
    if not BOUNDARY[name]:
        imports = [n for n in ast.walk(ast.parse(source)) if isinstance(n, ast.ImportFrom)]
        assert "WeylElement" not in {a.asname or a.name for n in imports for a in n.names}


def test_no_module_imports_fractions_or_dataclasses():
    # the root data and the affine coweight arithmetic are integer, and the
    # records are named tuples or slotted classes: neither module is needed
    users = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else []
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                names.append(node.module)
            if {"fractions", "dataclasses"} & {n.split(".")[0] for n in names}:
                users.add(path.name)
    assert users == set()
