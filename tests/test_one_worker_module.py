"""Only icurisk/_fanout.py starts, waits on or ends worker processes. Every
other module runs its side-by-side work through fan_out, so how a worker is
dealt its items, and what a worker that cannot start or dies becomes, is
decided in one place.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "icurisk"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "_fanout.py")
_PROCESS_CALLS = {"fork", "pipe", "waitpid", "kill", "_exit"}
_PROCESS_MODULES = {"multiprocessing", "concurrent", "subprocess"}


def process_handling(source: str) -> list:
    """Lines that call os.fork, os.pipe, os.waitpid, os.kill or os._exit,
    import one of them by name, or import multiprocessing,
    concurrent.futures or subprocess."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr in _PROCESS_CALLS
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module and (
                node.module.split(".")[0] in _PROCESS_MODULES
                or node.module == "os"
                and any(a.name in _PROCESS_CALLS for a in node.names)):
            lines.append(node.lineno)
        elif isinstance(node, ast.Import) and any(
                a.name.split(".")[0] in _PROCESS_MODULES for a in node.names):
            lines.append(node.lineno)
    return sorted(lines)


def test_the_check_sees_process_handling():
    assert process_handling(
        "import os\nimport os.path\nos.getpid()\nos.fork()\n"
        "from os import waitpid\nimport subprocess\n"
        "from concurrent.futures import ProcessPoolExecutor\n"
        "import multiprocessing.pool\nos.kill(pid, 9)\nos._exit(0)\n"
        "r, w = os.pipe()\nfrom os import path\n") == [4, 5, 6, 7, 8, 9, 10, 11]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_module_handles_no_worker_process(path):
    assert process_handling(path.read_text(encoding="utf-8")) == []
