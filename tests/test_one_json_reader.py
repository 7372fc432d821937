"""Only icurisk/_json.py parses JSON. Every other module of the package
reads its documents through _json.read_json, so a read failure is typed and
named in one place.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "icurisk"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "_json.py")
_PARSERS = {"load", "loads"}


def json_parses(source: str) -> list:
    """Lines that call json.load or json.loads, or import either by name."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr in _PARSERS
                and isinstance(node.value, ast.Name) and node.value.id == "json"):
            lines.append(node.lineno)
        elif (isinstance(node, ast.ImportFrom) and node.module == "json"
              and any(a.name in _PARSERS for a in node.names)):
            lines.append(node.lineno)
    return sorted(lines)


def test_the_check_sees_a_json_parse():
    assert json_parses("import json\nfrom json import loads\n"
                       "json.dumps(1)\nx = json.load(fh)\n") == [2, 4]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_module_reads_json_only_through_read_json(path):
    assert json_parses(path.read_text(encoding="utf-8")) == []
