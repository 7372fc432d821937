"""scipy is imported inside the functions that call it, never at module
level, so `import icurisk` and the fit-and-serve path do not load
scipy.special, which through scipy's array-API layer is most of a cold
start. The four distribution functions the package takes from it (ndtr,
log_ndtr, ndtri, stdtr) are needed only to synthesize a cohort, sample the
posterior and run a Welch t-test.
"""

import ast
import json
import os
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import pytest

import icurisk
from icurisk.selftest import PROBE_CONFIG

SRC = Path(icurisk.__file__).resolve().parent
MODULES = sorted(SRC.rglob("*.py"))


def module_level_scipy_imports(source: str) -> list:
    """Lines that import scipy or a submodule of it outside a function body."""
    lines = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(child, ast.Import) and any(
                    a.name.split(".")[0] == "scipy" for a in child.names):
                lines.append(child.lineno)
            elif (isinstance(child, ast.ImportFrom) and child.level == 0
                    and child.module.split(".")[0] == "scipy"):
                lines.append(child.lineno)
            visit(child)

    visit(ast.parse(source))
    return sorted(lines)


def test_the_check_sees_module_level_scipy_imports():
    assert module_level_scipy_imports(
        "import scipy\nfrom scipy.special import ndtr\n"
        "def f():\n    from scipy.special import stdtr\n    import scipy\n"
        "class C:\n    import scipy.stats\n"
        "    def m(self):\n        import scipy.special\n"
        "if True:\n    from scipy import special\n"
        "import scipyx\nfrom .scipy import x\nimport numpy, scipy.linalg\n"
        "async def g():\n    import scipy\n") == [1, 2, 7, 11, 14]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_module_imports_no_scipy_at_module_level(path):
    assert module_level_scipy_imports(path.read_text(encoding="utf-8")) == []


def test_fit_and_serve_never_load_scipy_special(tmp_path):
    csv = str(tmp_path / "cohort.csv")
    icurisk.save_cohort(icurisk.synth_default_cohort(n=300, seed=4), csv)
    out = str(tmp_path / "run")
    icurisk.write_artifacts(icurisk.run(replace(PROBE_CONFIG, out_dir=out)), out)
    welch_args = (1.0, 0.5, 10, 1.3, 0.6, 12)
    script = textwrap.dedent(f"""
        import json, sys
        import icurisk
        from icurisk import cli, pipeline

        loaded = ["scipy.special" in sys.modules]
        table = icurisk.load_cohort({csv!r}, icurisk.default_schema())
        split = icurisk.stratified_split(table, 0.7, 0)
        train, test = table.subset(split.train_rows), table.subset(split.test_rows)
        pipe = icurisk.fit_pipeline(train)
        model = icurisk.train_gbdt(icurisk.apply(pipe, train),
                                   icurisk.GbdtParams(depth=2, n_trees=10),
                                   icurisk.class_weights(train.y), seed=0)
        predictor = pipeline.Predictor(schema=train.schema, pipeline=pipe,
                                       model=model)
        for i in range(5):
            predictor(test.subset([i]).X)
        icurisk.shap_tree(model, predictor.transform(test.subset([0])),
                          icurisk.apply(pipe, train.subset(range(16))))
        loaded.append("scipy.special" in sys.modules)
        assert cli.main(["report", "--out", {out!r}]) == 0
        loaded.append("scipy.special" in sys.modules)
        p = icurisk.welch_t(*{welch_args!r}).p
        loaded.append("scipy.special" in sys.modules)
        print(json.dumps({{"loaded": loaded, "p": p}}))
    """)
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    # after import, after fit and serve, after `icurisk report`, after welch_t
    assert seen["loaded"] == [False, False, False, True]
    assert seen["p"] == icurisk.welch_t(*welch_args).p
