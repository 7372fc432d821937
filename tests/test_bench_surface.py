"""The package names the benchmark's tracer binds to (perfbench/tracer.py).

The tracer wraps icurisk functions by module and attribute name and hashes
fields of the fitted imputer, so renaming either here breaks only the
benchmark's traced run unless this test catches it first. It counts only
the calling process, so a layer that runs only in forked workers reads
zero there too.
"""

import collections
import importlib
import pathlib

import pytest

from icurisk import _fanout, report
from icurisk.cohort import save_cohort
from icurisk.pipeline import run
from icurisk.preprocess import fit_imputer
from icurisk.synth import synth_default_cohort

from conftest import make_table, wrap_everywhere

_PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(_PERFBENCH))
    return importlib.import_module("tracer")


def test_every_traced_layer_resolves_and_has_an_import_site(tracer):
    for name, module, attr in tracer.LAYERS:
        original = getattr(importlib.import_module(module), attr)
        assert callable(original), name
        assert list(tracer._sites(original)), f"{name}: no icurisk import site"


def test_tracer_hashes_a_fitted_imputer(tracer):
    imputer = fit_imputer(make_table(40, seed=3, missing=0.1))
    key = tracer.Tracer()._imputer_key(imputer)
    assert isinstance(key, bytes) and len(key) == 16


def test_the_caller_runs_every_traced_report_layer(tracer, monkeypatch, tmp_path):
    workloads = importlib.import_module("workloads")
    calls = collections.Counter()  # calls made in this process only
    for name, module, attr in tracer.LAYERS:
        original = getattr(importlib.import_module(module), attr)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        wrap_everywhere(monkeypatch, original, counted)
    monkeypatch.setattr(_fanout, "_cpu_count", lambda: 2)
    csv_path = tmp_path / "cohort.csv"
    save_cohort(synth_default_cohort(n=400, seed=3), csv_path)
    config = workloads.WORKLOADS["score_patients"].report_config(3, str(csv_path))
    # looked up at call time, as the benchmark does, so the wrapper counts it
    report.write_artifacts(run(config), str(tmp_path / "report"))
    # the eval stage's span is derived from the stages around it
    layers = set(workloads._REPORT_LAYERS) - {tracer.EVAL_STAGE}
    assert sorted(n for n in layers | {"cohort.load_cohort"} if not calls[n]) == []
