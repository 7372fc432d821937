"""The package names the benchmark's tracer binds to (perfbench/tracer.py).

The tracer wraps icurisk functions by module and attribute name and hashes
fields of the fitted imputer, so renaming either here breaks only the
benchmark's traced run unless this test catches it first.
"""

import importlib
import pathlib

import pytest

from icurisk.preprocess import fit_imputer

from conftest import make_table

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
