"""Exact engine for quantum Bruhat graphs, their affine lifts, the
level-zero weight poset, and tilted order queries.

The public names are resolved on first access (PEP 562), so importing the
package, or one layer of it, loads only the modules that are used.
"""

import importlib

#: each public name and the module that defines it
_HOMES = {
    "AffineElement": "affine",
    "AffineRoot": "root_system",
    "AffineWeyl": "affine",
    "BRUHAT": "qbg",
    "ConfigurationError": "root_system",
    "LevelZeroPoset": "level_zero",
    "LevelZeroWeight": "level_zero",
    "QUANTUM": "qbg",
    "QbgEdge": "qbg",
    "QbgGraph": "qbg",
    "QbgPath": "qbg",
    "RootSystem": "root_system",
    "WeylElement": "weyl",
    "WeylGroup": "weyl",
    "build_qbg": "qbg",
    "build_root_system": "root_system",
}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{home}", __name__), name)
    globals()[name] = value
    return value
