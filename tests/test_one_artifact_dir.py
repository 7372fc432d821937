"""Only icurisk/report.py creates directories. Every other module writes its
artifacts inside report.artifact_dir, so a failed manifest is written, and
a write failure typed, in one place. No module lists a directory: a run
records the files it writes, and never discovers them.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "icurisk"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "report.py")
_CREATORS = {"makedirs", "mkdir"}
_LISTERS = {"listdir", "scandir"}


def os_calls(source: str, names=_CREATORS) -> list:
    """Lines that use os.<name> for one of names, or import one by name."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr in names
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            lines.append(node.lineno)
        elif (isinstance(node, ast.ImportFrom) and node.module == "os"
              and any(a.name in names for a in node.names)):
            lines.append(node.lineno)
    return sorted(lines)


def test_the_check_sees_a_directory_creation():
    assert os_calls("import os\nfrom os import makedirs\n"
                    "os.path.join('a')\nos.mkdir(d)\n"
                    "os.makedirs(d, exist_ok=True)\n") == [2, 4, 5]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_module_creates_no_directory(path):
    assert os_calls(path.read_text(encoding="utf-8")) == []


def test_report_creates_directories_in_artifact_dir_alone():
    assert len(os_calls((SRC / "report.py").read_text(encoding="utf-8"))) == 1


def test_the_check_sees_a_directory_listing():
    assert os_calls("import os\nfrom os import scandir\nos.path.isdir(d)\n"
                    "names = os.listdir(d)\nos.makedirs(d)\n",
                    _LISTERS) == [2, 4]


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")),
                         ids=lambda p: str(p.relative_to(SRC)))
def test_module_lists_no_directory(path):
    assert os_calls(path.read_text(encoding="utf-8"), _LISTERS) == []
