"""Every name a package module exports resolves to an attribute."""

import importlib

import pytest

_MODULES = ("icurisk", "icurisk.models", "icurisk.explain", "icurisk.metrics",
            "icurisk.select")


@pytest.mark.parametrize("name", _MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
