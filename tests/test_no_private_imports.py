"""No module of the package imports a single-underscore name from another
icurisk module. A name one module shares with another is public in the
module that defines it, so what a module may change without telling the
rest of the package is exactly its underscore names.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "icurisk"
MODULES = sorted(SRC.rglob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


def private_imports(source: str) -> list:
    """(line, name) of each underscore name source imports from a module
    of the package: a relative import or one from icurisk."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "icurisk"):
            found += [(node.lineno, a.name) for a in node.names
                      if _private(a.name)]
    return sorted(found)


def test_the_check_sees_a_private_import():
    assert private_imports(
        "from __future__ import annotations\nfrom .._rng import derive_rng\n"
        "from ..metrics import _code, auroc\nfrom . import __version__\n"
        "from icurisk.report import _sanitize as s\nfrom os import _exit\n"
        "from .cv import (\n    _as_matrix)\n") == [(3, "_code"),
                                                     (5, "_sanitize"),
                                                     (7, "_as_matrix")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_module_imports_no_private_name(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []
