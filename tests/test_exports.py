"""Every name a package module exports resolves to an attribute, and the
package exports every error it raises."""

import importlib
import inspect

import pytest

from icurisk import errors

_MODULES = ("icurisk", "icurisk.models", "icurisk.explain", "icurisk.metrics",
            "icurisk.select")


@pytest.mark.parametrize("name", _MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def test_every_error_class_is_exported():
    import icurisk
    classes = [name for name, obj in vars(errors).items()
               if inspect.isclass(obj) and issubclass(obj, errors.IcuRiskError)]
    assert len(classes) >= 7
    missing = [name for name in classes if name not in icurisk.__all__]
    assert not missing, f"icurisk.__all__ lacks the errors {missing}"
